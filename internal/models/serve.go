package models

import (
	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// HeadLayer is one affine layer of a decoupled model's inference head:
// out = in·W + Bias, followed by ReLU when ReLU is true. The weights alias
// the model's live parameters (no copy), so factors extracted after loading
// a checkpoint always reflect the loaded values.
type HeadLayer struct {
	W    *matrix.Dense // in × out weight matrix
	Bias []float64     // out bias vector
	ReLU bool          // apply ReLU after the affine map
}

// ApplyHead evaluates a dense head on every row of in: per row, a sequence
// of GEMVs (out_j = b_j + Σ_k in_k·W_kj, bias first, k ascending) with
// optional ReLU. Rows fan out over the bounded pool; within a row the
// accumulation order is fixed, so results never depend on worker count — or,
// because each row is computed alone, on which row subset (shard) it is
// evaluated in. That row-subset stability is what lets internal/shard fill
// the logits table one shard at a time with this exact kernel and land
// bit-identical to the single-process fill.
func ApplyHead(head []HeadLayer, in *matrix.Dense) *matrix.Dense {
	cur := in
	for _, l := range head {
		out := matrix.New(cur.Rows, l.W.Cols)
		src, w := cur, l
		parallel.For(cur.Rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := src.Row(i)
				orow := out.Row(i)
				copy(orow, w.Bias)
				for k, x := range row {
					wrow := w.W.Row(k)
					for j, wv := range wrow {
						orow[j] += x * wv
					}
				}
				if w.ReLU {
					for j, v := range orow {
						if v < 0 {
							orow[j] = 0
						}
					}
				}
			}
		})
		cur = out
	}
	return cur
}

// Decoupled is implemented by architectures whose inference factorises into
// a fixed propagated embedding and a dense head: logits(v) depends only on
// row v of the embedding. SGC, GAMLP and the MLP baseline qualify; message-
// passing models (GCN, GCNII, ...) do not, because their logits couple all
// nodes through per-forward propagation. The served logits table is filled
// from the factors with ApplyHead, a per-row dense head, so the same rows can be
// computed shard by shard — from the embedding's recipe, never holding the
// whole matrix — and land on the same bits.
type Decoupled interface {
	Model
	// InferenceFactors returns the N×F propagated embedding and the head
	// evaluated on its rows. Called after parameters are final (e.g. after
	// nn.Unflatten); the embedding reflects the current parameter values.
	InferenceFactors() (*matrix.Dense, []HeadLayer)
	// EmbeddingSpec returns the embedding's recipe under the current
	// parameter values.
	EmbeddingSpec() EmbeddingSpec
}

// headFromMLP flattens an inference-time MLP into head layers (dropout is an
// identity at inference and is dropped; every non-final layer gains a ReLU).
func headFromMLP(m *nn.MLP) []HeadLayer {
	out := make([]HeadLayer, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = HeadLayer{W: l.W.Value, Bias: l.B.Value.Data, ReLU: i+1 < len(m.Layers)}
	}
	return out
}

// InferenceFactors implements Decoupled: SGC is a linear head on the cached
// k-step propagated features X^(k).
func (m *SGC) InferenceFactors() (*matrix.Dense, []HeadLayer) {
	return m.xk, []HeadLayer{{W: m.linear.W.Value, Bias: m.linear.B.Value.Data}}
}

// InferenceFactors implements Decoupled: GAMLP's embedding is the hop
// combination under the current gate softmax (recomputed here so it reflects
// loaded parameters), and its head is the MLP.
func (m *GAMLP) InferenceFactors() (*matrix.Dense, []HeadLayer) {
	combo, _ := m.combine()
	return combo, headFromMLP(m.mlp)
}

// InferenceFactors implements Decoupled: the MLP baseline is topology-free,
// so its "embedding" is the raw feature matrix.
func (m *MLPModel) InferenceFactors() (*matrix.Dense, []HeadLayer) {
	return m.g.X, headFromMLP(m.mlp)
}

// EmbeddingSpec is the *recipe* for a decoupled model's embedding — how many
// propagation hops to run and how to combine them — as opposed to
// InferenceFactors, which returns the embedding already materialised for the
// whole graph. A sharded fill uses the recipe to rebuild each shard's slice
// of the embedding locally (with halo exchange at shard edges) without ever
// holding the full matrix.
type EmbeddingSpec struct {
	// Hops is the propagation depth K.
	Hops int
	// HopWeights, when non-nil (len Hops+1), combine the hop stack
	// Σ_k HopWeights[k]·X^(k) in ascending k order (GAMLP); nil takes the
	// final hop X^(K) alone (SGC, and the K=0 MLP case).
	HopWeights []float64
	// Norm is the adjacency normalisation the hops propagate with.
	Norm sparse.NormKind
}

// EmbeddingSpec implements Decoupled: SGC's embedding is the final
// hop X^(K).
func (m *SGC) EmbeddingSpec() EmbeddingSpec {
	return EmbeddingSpec{Hops: m.hops, Norm: sparse.NormSym}
}

// EmbeddingSpec implements Decoupled: GAMLP combines all K+1 hops
// under the current gate softmax.
func (m *GAMLP) EmbeddingSpec() EmbeddingSpec {
	return EmbeddingSpec{Hops: len(m.hops) - 1, HopWeights: softmaxVec(m.gate.Value.Data), Norm: sparse.NormSym}
}

// EmbeddingSpec implements Decoupled: the MLP baseline never
// propagates, so its embedding is hop zero (the raw features).
func (m *MLPModel) EmbeddingSpec() EmbeddingSpec { return EmbeddingSpec{Norm: sparse.NormSym} }
