package core

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// This file keeps Step 2's message branch as it was written before it
// stopped materialising the signed operator: the Gram matrix normalised in
// place, the PoSign/NeSign halves of P = β·P̃ + (1−β)·G written out whole by
// evolveSigns, and four whole-matrix products (MulInto forward, TMulInto on
// the halves backward). It is the reference signedProducts is held to bit
// for bit.

// evolveSigns overwrites pos and neg with ReLU(P) and ReLU(−P), the PoSign /
// NeSign halves of the evolved propagation matrix P = β·P̃ + (1−β)·G of
// Eq. (11), in one pass over the n_i² elements. A zero element lands in neg
// (as −0). The float64 conversions round both products before the sum, so no
// compiler may fuse them into a multiply-add: every platform computes
// round(round(β·p̃) + round((1−β)·g)). The halves are selected by mask, not by
// a branch on the sign: pos = v where v > 0 else +0, neg = −v where not else +0.
// gram may be neg itself: element i is read before neg's element i is written.
func evolveSigns(pos, neg *matrix.Dense, beta float64, ptilde, gram *matrix.Dense) {
	rest := 1 - beta
	parallel.ForWork(len(ptilde.Data), len(ptilde.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := float64(beta*ptilde.Data[i]) + float64(rest*gram.Data[i])
			bits := math.Float64bits(v)
			m := matrix.PositiveMask(bits)
			pos.Data[i] = math.Float64frombits(bits & m)
			neg.Data[i] = math.Float64frombits((bits ^ 1<<63) &^ m)
		}
	})
}

// denseHalves returns the PoSign and NeSign halves of P evolved from the
// message embeddings H' of p's last forward, written out whole.
func denseHalves(p *personal) (pos, neg *matrix.Dense) {
	gram := matrix.MulT(p.hmPrime, p.hmPrime)
	matrix.NormalizeRowsL1(gram)
	pos, neg = matrix.New(p.g.N, p.g.N), matrix.New(p.g.N, p.g.N)
	evolveSigns(pos, neg, p.opt.Beta, p.ptilde, gram)
	return pos, neg
}

// denseTrain is personal.train on the dense message branch.
func denseTrain(p *personal, epochs int) {
	for e := 0; e < epochs; e++ {
		nn.ZeroGrads(p.params)
		dY := p.buf(&p.dY)
		pos, neg := denseForward(p)
		probCrossEntropyGradInto(dY, p.yhat, p.g.Labels, p.g.TrainMask)
		denseBackward(p, dY, pos, neg)
		if !p.opt.DisableKP {
			dKP := p.buf(&p.dKP)
			nn.MSELossInto(dKP, p.hTilde, p.extLogits)
			p.knowledge.Backward(dKP)
		}
		p.optimizer.Step(p.params)
	}
}

// denseForward is personal.forward on the dense message branch; it returns
// the halves backward multiplies by (nil under DisableLM).
func denseForward(p *personal) (pos, neg *matrix.Dense) {
	p.hTilde = p.knowledge.Forward(nil)
	matrix.SoftmaxRowsInto(p.buf(&p.sHT), p.hTilde)
	if !p.opt.DisableTF {
		p.hf = p.feature.Forward(nil)
		matrix.SoftmaxRowsInto(p.buf(&p.sHF), p.hf)
	}
	if !p.opt.DisableLM {
		p.hmPrime = p.message.Forward(p.hTilde)
		pos, neg = denseHalves(p)
		posH, negH := p.buf(&p.posH), p.buf(&p.negH)
		matrix.MulInto(posH, pos, p.hmPrime)
		matrix.MulInto(negH, neg, p.hmPrime)
		matrix.SubInto(posH, posH, negH)
		matrix.AddInto(p.buf(&p.hm1), p.hmPrime, posH)
		matrix.SoftmaxRowsInto(p.buf(&p.sHM), p.hm1)
	}
	yho := p.buf(&p.yho)
	matrix.ScaleInto(yho, 0.5, p.sHT)
	matrix.AddScaled(yho, 0.5, p.phat)
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
	matrix.ScaleInto(p.buf(&p.yhat), p.hcs, yho)
	matrix.AddScaled(p.yhat, 1-p.hcs, yhe)
	return pos, neg
}

// denseBackward is personal.backward on the dense message branch.
func denseBackward(p *personal, dY, pos, neg *matrix.Dense) {
	heWeight := (1 - p.hcs) / float64(p.heads())
	dS, dZ := p.buf(&p.dS), p.buf(&p.dZ)
	matrix.ScaleInto(dS, p.hcs*0.5+heWeight, dY)
	dHT := p.buf(&p.dHT)
	softmaxBackwardInto(dHT, p.sHT, dS)
	if !p.opt.DisableLM {
		matrix.ScaleInto(dS, heWeight, dY)
		softmaxBackwardInto(dZ, p.sHM, dS)
		posH, negH := p.buf(&p.posH), p.buf(&p.negH)
		matrix.TMulInto(posH, pos, dZ)
		matrix.TMulInto(negH, neg, dZ)
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
