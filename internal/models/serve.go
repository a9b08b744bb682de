package models

import (
	"repro/internal/matrix"
	"repro/internal/nn"
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

// Decoupled is implemented by architectures whose inference factorises into
// a fixed propagated embedding and a dense head: logits(v) depends only on
// row v of the embedding. SGC, GAMLP and the MLP baseline qualify; message-
// passing models (GCN, GCNII, ...) do not, because their logits couple all
// nodes through per-forward propagation. The serving layer fills its logits
// table from the factors with a per-row dense head, so the same rows can be
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
